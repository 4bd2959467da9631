//! Simulated CPUs: per-CPU reorder engines and versioned global memory.
//!
//! Each CPU owns a `ReorderEngine` — the generalization of the old
//! store buffer — whose behaviour is driven entirely by the
//! [`ExecSemantics`] fields of the machine's model (see
//! [`mod@jungle_core::registry`]):
//!
//! * the **store discipline** decides which buffered stores may drain
//!   next (none / FIFO / oldest-per-address);
//! * **forwarding** decides whether a load may be served from the CPU's
//!   own buffered store or must first drain it;
//! * the **load window** lets a load observe one of the last few
//!   overwritten values of an address (a load that *performed early*),
//!   bounded by per-CPU **coherence floors** so a CPU never un-sees a
//!   value it has already observed or written.
//!
//! `GlobalMem` keeps a short per-address version history (the last
//! `MAX_VERSIONS` values with global sequence numbers) to make the
//! load window explorable.
//!
//! Nothing here hashes: a litmus program touches a handful of
//! addresses, so memory cells and floors are short vectors searched
//! linearly, and a cell's versions sit inline in it.

use jungle_core::ids::Val;
use jungle_core::registry::{ExecSemantics, StoreDiscipline};
use jungle_isa::instr::Addr;

/// The hardware model the simulated machine executes: the
/// execution-side semantics of a registry entry, such as
/// [`ExecSemantics::TSO_FWD`].
pub type HwModel = ExecSemantics;

/// Number of versions [`GlobalMem`] retains per address: the newest
/// plus the largest load window in the registry.
const MAX_VERSIONS: usize = ExecSemantics::MAX_LOAD_WINDOW as usize + 1;

/// A buffered (not yet globally visible) store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PendingStore {
    /// Target address.
    pub addr: Addr,
    /// Value to be written.
    pub val: Val,
}

/// One simulated CPU's private memory state: buffered stores plus the
/// coherence floors that bound its load reorder window.
///
/// A floor records the newest global sequence number the CPU has
/// *observed* for an address (by reading it, or by draining its own
/// store to it); loads may never return a version older than the floor.
/// A CAS raises the **global** floor (it acts as a full fence).
#[derive(Debug, Default)]
pub(crate) struct ReorderEngine {
    entries: Vec<PendingStore>,
    global_floor: u64,
    addr_floors: Vec<(Addr, u64)>,
}

impl Clone for ReorderEngine {
    fn clone(&self) -> Self {
        ReorderEngine {
            entries: self.entries.clone(),
            global_floor: self.global_floor,
            addr_floors: self.addr_floors.clone(),
        }
    }

    /// Copies into the vectors `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        self.entries.clone_from(&src.entries);
        self.global_floor = src.global_floor;
        self.addr_floors.clone_from(&src.addr_floors);
    }
}

impl ReorderEngine {
    /// Enqueue a store.
    pub(crate) fn push(&mut self, addr: Addr, val: Val) {
        self.entries.push(PendingStore { addr, val });
    }

    /// Number of buffered stores.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The youngest buffered value for `addr`, if any (store-to-load
    /// forwarding).
    pub(crate) fn forward(&self, addr: Addr) -> Option<Val> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.val)
    }

    /// The indices of entries that may drain next under `hw`'s store
    /// discipline: FIFO — only the oldest entry; per-address — the
    /// oldest entry *per address*; immediate — the buffer is never
    /// populated. Ascending.
    pub(crate) fn drainable(&self, hw: HwModel) -> impl Iterator<Item = usize> + '_ {
        let n = match hw.stores {
            StoreDiscipline::Immediate => 0,
            StoreDiscipline::Fifo => self.entries.len().min(1),
            StoreDiscipline::PerAddress => self.entries.len(),
        };
        let entries = &self.entries;
        (0..n).filter(move |&i| entries[..i].iter().all(|e| e.addr != entries[i].addr))
    }

    /// Remove and return the entry at `idx`.
    pub(crate) fn take(&mut self, idx: usize) -> PendingStore {
        self.entries.remove(idx)
    }

    /// Remove and return the oldest entry, if any (CAS drains the whole
    /// buffer, in order, through this).
    pub(crate) fn pop_oldest(&mut self) -> Option<PendingStore> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    /// The next store that must drain before this CPU may *load* `addr`
    /// on a machine **without** store-to-load forwarding; `None` once
    /// the load may go ahead. Called until `None`, it drains, in order,
    /// under FIFO the whole prefix up to the youngest same-address
    /// entry (TSO's load waits for its own store to become visible),
    /// under per-address queues just that address's queue.
    pub(crate) fn pop_forced_for_load(&mut self, hw: HwModel, addr: Addr) -> Option<PendingStore> {
        let first = self.entries.iter().position(|e| e.addr == addr)?;
        match hw.stores {
            StoreDiscipline::Immediate => None,
            StoreDiscipline::Fifo => Some(self.entries.remove(0)),
            StoreDiscipline::PerAddress => Some(self.entries.remove(first)),
        }
    }

    /// The effective coherence floor for `addr`: the newest sequence
    /// number this CPU is known to have observed for it.
    pub(crate) fn eff_floor(&self, addr: Addr) -> u64 {
        self.addr_floors
            .iter()
            .find(|f| f.0 == addr)
            .map_or(0, |f| f.1)
            .max(self.global_floor)
    }

    /// Record that this CPU observed version `seq` of `addr` (by
    /// loading it or draining its own store to it). Floors only rise.
    pub(crate) fn raise_addr_floor(&mut self, addr: Addr, seq: u64) {
        match self.addr_floors.iter_mut().find(|f| f.0 == addr) {
            Some(f) => f.1 = f.1.max(seq),
            None => self.addr_floors.push((addr, seq)),
        }
    }

    /// Record a full fence (CAS): the CPU has observed global memory up
    /// to `seq`; no later load of any address may return anything
    /// older.
    pub(crate) fn raise_global_floor(&mut self, seq: u64) {
        self.global_floor = self.global_floor.max(seq);
    }
}

/// Flat global memory (zero-initialized, sparse) with a short
/// per-address version history.
///
/// Every store gets a fresh global sequence number; the last
/// [`MAX_VERSIONS`] values of each address are retained so machines
/// with a load reorder window can offer stale reads. The implicit
/// initial value `0` counts as version `(0, 0)`.
#[derive(Debug, Default)]
pub(crate) struct GlobalMem {
    /// The written addresses, in the order of their first store.
    cells: Vec<Cell>,
    seq: u64,
}

impl Clone for GlobalMem {
    fn clone(&self) -> Self {
        GlobalMem {
            cells: self.cells.clone(),
            seq: self.seq,
        }
    }

    /// Copies into the vector `self` already holds.
    fn clone_from(&mut self, src: &Self) {
        self.cells.clone_from(&src.cells);
        self.seq = src.seq;
    }
}

/// One written address and its retained versions, oldest → newest in
/// `versions[..len]` (seeded with the initial `(0, 0)`).
#[derive(Clone, Copy, Debug)]
struct Cell {
    addr: Addr,
    len: usize,
    versions: [(u64, Val); MAX_VERSIONS],
}

impl Cell {
    fn versions(&self) -> &[(u64, Val)] {
        &self.versions[..self.len]
    }
}

/// The version list of a never-written address.
static INITIAL_VERSION: [(u64, Val); 1] = [(0, 0)];

impl GlobalMem {
    /// Read the current value of an address (0 if never written).
    pub(crate) fn load(&self, addr: Addr) -> Val {
        self.current(addr).1
    }

    /// The newest version of `addr`: `(0, 0)` if never written.
    pub(crate) fn current(&self, addr: Addr) -> (u64, Val) {
        let vs = self.versions(addr);
        vs[vs.len() - 1]
    }

    /// Write an address; returns the new version's global sequence
    /// number.
    pub(crate) fn store(&mut self, addr: Addr, val: Val) -> u64 {
        self.seq += 1;
        let at = match self.cells.iter().position(|c| c.addr == addr) {
            Some(i) => i,
            None => {
                // Slot 0 holds the initial version `(0, 0)`.
                self.cells.push(Cell {
                    addr,
                    len: 1,
                    versions: [(0, 0); MAX_VERSIONS],
                });
                self.cells.len() - 1
            }
        };
        let c = &mut self.cells[at];
        if c.len == MAX_VERSIONS {
            c.versions.copy_within(1.., 0);
            c.len -= 1;
        }
        c.versions[c.len] = (self.seq, val);
        c.len += 1;
        self.seq
    }

    /// The current global sequence number (number of stores so far).
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// The retained versions of `addr`, oldest → newest (at least one
    /// entry; `(0, 0)` for a never-written address).
    pub(crate) fn versions(&self, addr: Addr) -> &[(u64, Val)] {
        self.cells
            .iter()
            .find(|c| c.addr == addr)
            .map_or(&INITIAL_VERSION, Cell::versions)
    }

    /// Snapshot of all written cells' current values, sorted by address.
    pub(crate) fn snapshot(&self) -> Vec<(Addr, Val)> {
        let mut v: Vec<(Addr, Val)> = self
            .cells
            .iter()
            .map(|c| (c.addr, c.versions[c.len - 1].1))
            .collect();
        v.sort_unstable();
        v
    }

    /// Atomic compare-and-swap on the current value; returns whether it
    /// succeeded.
    pub(crate) fn cas(&mut self, addr: Addr, expect: Val, new: Val) -> bool {
        if self.load(addr) == expect {
            self.store(addr, new);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every store a load of `addr` forces out, in drain order.
    fn forced(b: &mut ReorderEngine, hw: HwModel, addr: Addr) -> Vec<PendingStore> {
        std::iter::from_fn(|| b.pop_forced_for_load(hw, addr)).collect()
    }

    #[test]
    fn forwarding_returns_youngest() {
        let mut b = ReorderEngine::default();
        b.push(0, 1);
        b.push(1, 9);
        b.push(0, 2);
        assert_eq!(b.forward(0), Some(2));
        assert_eq!(b.forward(1), Some(9));
        assert_eq!(b.forward(7), None);
    }

    #[test]
    fn tso_drains_fifo_only() {
        let mut b = ReorderEngine::default();
        b.push(0, 1);
        b.push(1, 2);
        assert_eq!(b.drainable(HwModel::TSO_FWD).collect::<Vec<_>>(), vec![0]);
        let e = b.take(0);
        assert_eq!(e, PendingStore { addr: 0, val: 1 });
        assert_eq!(b.drainable(HwModel::TSO_FWD).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn pso_drains_per_address() {
        let mut b = ReorderEngine::default();
        b.push(0, 1);
        b.push(0, 2);
        b.push(1, 9);
        // Oldest per address: index 0 (addr 0) and index 2 (addr 1).
        assert_eq!(
            b.drainable(HwModel::PSO_FWD).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Same-address order is preserved: 0→2 cannot drain before 0→1.
        let e = b.take(2);
        assert_eq!(e.addr, 1);
        assert_eq!(b.drainable(HwModel::PSO_FWD).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn relaxed_models_drain_per_address_too() {
        // Coherence is the machine's hard floor: even the fully relaxed
        // model never inverts same-address stores.
        let mut b = ReorderEngine::default();
        b.push(0, 1);
        b.push(0, 2);
        b.push(1, 9);
        for hw in [HwModel::RMO, HwModel::ALPHA, HwModel::RELAXED] {
            assert_eq!(
                b.drainable(hw).collect::<Vec<_>>(),
                vec![0, 2],
                "{}",
                hw.name
            );
        }
    }

    #[test]
    fn sc_never_buffers() {
        let b = ReorderEngine::default();
        assert_eq!(
            b.drainable(HwModel::SC).collect::<Vec<_>>(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn forced_drain_fifo_takes_whole_prefix() {
        // Plain TSO: a load of addr 0 with [1:=9, 0:=1, 2:=3, 0:=2]
        // pending must drain the prefix through the *last* store to 0.
        let mut b = ReorderEngine::default();
        b.push(1, 9);
        b.push(0, 1);
        b.push(2, 3);
        b.push(0, 2);
        let drained = forced(&mut b, HwModel::TSO, 0);
        assert_eq!(
            drained.iter().map(|e| (e.addr, e.val)).collect::<Vec<_>>(),
            vec![(1, 9), (0, 1), (2, 3), (0, 2)]
        );
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn forced_drain_per_address_takes_only_that_queue() {
        let mut b = ReorderEngine::default();
        b.push(1, 9);
        b.push(0, 1);
        b.push(0, 2);
        let drained = forced(&mut b, HwModel::PSO, 0);
        assert_eq!(
            drained.iter().map(|e| (e.addr, e.val)).collect::<Vec<_>>(),
            vec![(0, 1), (0, 2)]
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b.forward(1), Some(9));
    }

    #[test]
    fn floors_rise_monotonically() {
        let mut b = ReorderEngine::default();
        assert_eq!(b.eff_floor(0), 0);
        b.raise_addr_floor(0, 5);
        b.raise_addr_floor(0, 3); // no-op
        assert_eq!(b.eff_floor(0), 5);
        assert_eq!(b.eff_floor(1), 0);
        b.raise_global_floor(7);
        assert_eq!(b.eff_floor(0), 7);
        assert_eq!(b.eff_floor(1), 7);
        b.raise_global_floor(2); // no-op
        assert_eq!(b.eff_floor(1), 7);
    }

    #[test]
    fn memory_cas() {
        let mut m = GlobalMem::default();
        assert_eq!(m.load(3), 0);
        assert!(m.cas(3, 0, 7));
        assert!(!m.cas(3, 0, 9));
        assert_eq!(m.load(3), 7);
        m.store(3, 1);
        assert_eq!(m.load(3), 1);
    }

    #[test]
    fn memory_retains_bounded_version_history() {
        let mut m = GlobalMem::default();
        assert_eq!(m.versions(0), &[(0, 0)]);
        let s1 = m.store(0, 10);
        let s2 = m.store(0, 20);
        assert!(s1 < s2);
        assert_eq!(m.versions(0), &[(0, 0), (s1, 10), (s2, 20)]);
        for v in 3..10 {
            m.store(0, v * 10);
        }
        let vs = m.versions(0);
        assert_eq!(vs.len(), MAX_VERSIONS);
        assert_eq!(vs.last().unwrap().1, 90);
        // Stores to other addresses advance the shared sequence.
        let before = m.seq();
        m.store(1, 1);
        assert_eq!(m.seq(), before + 1);
    }
}
